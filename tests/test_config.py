"""Run settings: JSON configs, CLI flags and sweep points parse alike."""

import argparse
import json
import math
import re
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from wlanmodel import cli, pipeline
from wlanmodel.pipeline import SETTINGS, RunConfig
from wlanmodel.scenario import Scenario, from_tree

README = Path(__file__).resolve().parents[1] / "README.md"
HALL = {"generator": "conference_hall", "n_aps": 4, "n_users": 12}


def test_missing_keys_keep_their_defaults():
    assert RunConfig(**{}) == RunConfig()
    assert RunConfig(**{"technology": "su_beamforming"}).cca_db == 10.0
    assert RunConfig(**{"cca_db": None}).cca_db is None
    assert RunConfig(**{"seeds": {"plan": 7}}).seeds == \
        pipeline.Seeds(plan=7)


def test_cli_config_file_without_cca_keeps_carrier_sensing(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"technology": "su_beamforming"}))
    out_dir = tmp_path / "out"
    assert cli.main(["evaluate", "--config", str(cfg_path),
                     "--out-dir", str(out_dir)]) == 0
    echo = json.loads((out_dir / "summary.json").read_text())["config"]
    assert echo["cca_db"] == 10.0


@pytest.mark.parametrize("data, name", [
    ({"antennas": 4.7}, "antennas"),
    ({"power_db": "90"}, "power_db"),
    ({"cca_db": "none"}, "cca_db"),
    ({"power_db": float("nan")}, "power_db"),
    ({"scenario": {**HALL, "n_aps": 4.5}}, "n_aps"),
    ({"seeds": {"plan": 2.5}}, "seeds.plan"),
    ({"oracle": {"n_realizations": 10.5}}, "oracle.n_realizations"),
    ({"rho": float("inf")}, "rho"),
    ({"power_db": float("-inf")}, "power_db"),
    ({"state_cap": 0}, "state_cap"),
])
def test_bad_values_are_refused_by_name(data, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        RunConfig(**data)


@pytest.mark.parametrize("seed", [f.name for f in fields(pipeline.Seeds)])
def test_negative_seeds_are_refused_when_the_config_is_built(seed):
    with pytest.raises(ValueError, match=re.escape(f"seeds.{seed} cannot be -1")):
        RunConfig(seeds={seed: -1})
    assert RunConfig(seeds={seed: 0}).seeds == pipeline.Seeds(**{seed: 0})


def test_constructor_arguments_are_parsed_too():
    with pytest.raises(ValueError, match="antennas"):
        RunConfig(antennas=4.7)
    cfg = RunConfig(power_db=80, cca_db="disabled", seeds={"plan": 7})
    assert (cfg.power_db, cfg.cca_db, cfg.seeds) == (80.0, None, pipeline.Seeds(plan=7))
    assert isinstance(cfg.power_db, float)


@pytest.mark.parametrize("key, value, message", [
    ("power_db", math.inf, "scenario.power_db cannot be inf"),
    ("antennas", 2.5, "scenario.antennas cannot be 2.5"),
    ("seed", -1, "scenario.seed cannot be -1"),
    ("power_db", 60.0, "scenario.power_db cannot be 60.0"),
    ("antennas", 2, "scenario.antennas cannot be 2"),
    ("seed", 5, "scenario.seed cannot be 5"),
    ("grid_step_m", 0.25, "scenario.grid_step_m cannot be 0.25"),
    ("wall_attenuation_db", math.inf, "scenario.wall_attenuation_db cannot be inf"),
    ("foo", 1, "scenario.foo cannot be 1"),
])
def test_generator_inputs_in_the_scenario_are_parsed(key, value, message, tmp_path, capsys):
    # The scenario dict holds the scenario.* settings only: power, antennas
    # and the topology seed are top-level settings, and any other key is
    # refused by name when the config is built, whatever its value.
    office = {"generator": "walled_office", "n_rooms": 4, "n_aps": 4, "n_users": 12}
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(scenario={**office, key: value})
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"scenario": {**office, key: value}}))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["evaluate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert f"scenario.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data, message", [
    ({"sector_width_deg": 400.0}, "sector_width_deg: sector width must be in (0, 360]"),
    ({"sector_width_deg": 0.0}, "sector_width_deg: sector width must be in (0, 360]"),
    ({"sector_orientation_deg": 45.0}, "sector_orientation_deg needs sector_width_deg"),
    ({"scenario": {"generator": "stadium", "n_aps": 4, "n_users": 12, "n_rooms": 4}},
     "scenario.n_rooms cannot be 4"),
    ({"scenario": {"generator": "walled_office", "n_aps": 4, "n_users": 12}},
     "scenario.n_rooms cannot be None"),
    ({"scenario": {"generator": "walled_office", "n_aps": 4, "n_users": 12, "n_rooms": 3}},
     "scenario.n_rooms cannot be 3"),
    ({"scenario": {"generator": "walled_office", "n_aps": 4, "n_users": 12, "n_rooms": 0}},
     "scenario.n_rooms cannot be 0"),
    ({"pathloss": {"profile": "outdoor"}}, "pathloss.profile cannot be set"),
])
def test_settings_that_would_fail_or_do_nothing_are_refused_when_built(
        data, message, tmp_path, capsys):
    # Each used to build and then fail at evaluate, or to change nothing.
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(**data)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["evaluate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_config_file_and_its_flags_are_checked_once_merged(tmp_path):
    # Each alone would be refused: the file lacks n_rooms and a sector width.
    office = {"generator": "walled_office", "n_aps": 4, "n_users": 12}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"scenario": office, "sector_orientation_deg": 45.0}))
    assert cli._build_config(argparse.Namespace(
        config=str(cfg_path), scenario_file=None, n_rooms="4", sector_width_deg="90")) == \
        RunConfig(scenario={**office, "n_rooms": 4}, sector_width_deg=90.0,
                  sector_orientation_deg=45.0)


@pytest.mark.parametrize("flag, text", [
    ("--antennas", "4.7"), ("--n-aps", "4.5"), ("--cca-db", "none"),
    ("--power-db", "loud"), ("--technology", "laser"), ("--power-db", "inf"),
    pytest.param("--n-aps", "1" + "0" * 400, id="--n-aps-beyond-float-range"),
    ("--n-aps", "0"), ("--n-users", "-3"), ("--antennas", "0"), ("--n-clusters", "0"),
    ("--realizations", "0"),
])
def test_bad_flag_values_are_usage_errors(flag, text, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["evaluate", flag, text, "--out-dir", str(tmp_path)])
    assert exit_.value.code == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err


def test_cli_config_file_with_an_unknown_key_is_a_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"technolgy": "su_beamforming"}))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["evaluate", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
    assert exit_.value.code == 2
    assert "technolgy" in capsys.readouterr().err


def test_config_with_oracle_subcarriers_is_refused(tmp_path, capsys):
    # The oracle no longer has a subcarrier axis: an old config says so.
    tree = {"oracle": {"subcarriers": 4}}
    with pytest.raises(TypeError, match="subcarriers"):
        RunConfig(**tree)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(tree))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["mc-validate", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
    assert exit_.value.code == 2
    assert "subcarriers" in capsys.readouterr().err


def test_bad_sweep_point_is_that_points_error():
    cfg = RunConfig(scenario=HALL, sweep_axis="n_aps", sweep_values=[4, 4.5])
    res = pipeline.sweep(cfg)
    assert 4 in res.summaries
    assert set(res.errors) == {4.5}
    assert "n_aps" in res.errors[4.5]
    with pytest.raises(ValueError, match="n_aps"):
        pipeline.resolve_sweep_point(cfg, 4.5)


def test_repeated_sweep_values_are_refused_when_the_config_is_built():
    for axis, values in (("rho", [10.0, 10]), ("cca_db", [None, "disabled"]),
                         ("n_aps", [4, 8, 4]), ("n_aps", [4.5, 4.5]),
                         ("channelization", ["4x20", "4x20"])):
        with pytest.raises(ValueError, match="repeats"):
            RunConfig(scenario=HALL, sweep_axis=axis, sweep_values=values)
    assert RunConfig(sweep_axis="rho", sweep_values=[10, 100.0]).sweep_values == [10, 100.0]


def test_generator_inputs_on_a_scenario_file_are_refused(tmp_path):
    path = tmp_path / "scen.json"
    pipeline.evaluate(RunConfig(scenario=HALL)).scenario.save(path)
    on_file = {"file": str(path)}
    for axis, values in (("antennas", [2, 8]), ("power_db", [70.0, 90.0]),
                         ("n_aps", [4, 8]), ("n_users", [10, 20])):
        with pytest.raises(ValueError, match=axis):
            RunConfig(scenario=on_file, sweep_axis=axis, sweep_values=values)
    with pytest.raises(ValueError, match="n_aps"):
        RunConfig(scenario={**on_file, "n_aps": 4})
    with pytest.raises(ValueError, match="antennas"):
        RunConfig(scenario=on_file, antennas=8)
    # A file's APs carry their own sectors; a setting would replace them all.
    for name, value in (("sector_width_deg", 90.0), ("sector_orientation_deg", 45.0)):
        with pytest.raises(ValueError, match=f"{name} cannot change scenario file"):
            RunConfig(scenario=on_file, **{name: value})
    for flags in (["--n-aps", "4"], ["--generator", "stadium"],
                  ["--sector-width-deg", "90"], ["--sector-orientation-deg", "45"]):
        with pytest.raises(SystemExit):
            cli.main(["evaluate", "--scenario-file", str(path), *flags,
                      "--out-dir", str(tmp_path / "out")])
    # the file alone, with default antennas and power beside it, is accepted,
    # and so is a topology seed: it is not a generator setting
    assert RunConfig(scenario=on_file).scenario == on_file
    assert RunConfig(scenario=on_file, seeds=pipeline.Seeds(topology=7)).seeds.topology == 7


def test_a_scenario_dict_needs_a_file_or_a_generator(tmp_path, capsys):
    with pytest.raises(ValueError, match=re.escape("scenario.generator")):
        RunConfig(scenario={"n_aps": 4, "n_users": 10})
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"scenario": {"n_aps": 4, "n_users": 10}}))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["evaluate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert "scenario.generator" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _readme_block(heading):
    """The jsonc block under a README heading, its comments stripped."""
    block = README.read_text().split(heading, 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"//[^\n]*", "", block))


def test_readme_run_configuration_shows_the_defaults():
    assert _readme_block("## Run configuration") == asdict(RunConfig())


def test_readme_scenario_file_schema_loads():
    assert from_tree(Scenario, _readme_block("## Scenario file schema")).n_aps == 1


# The flags `evaluate`, `sweep` and `mc-validate` share, in `--help` order.
RUN_FLAGS = [
    "--config", "--scenario-file", "--generator", "--n-aps", "--n-users",
    "--n-rooms", "--technology", "--channelization", "--cca-db", "--power-db",
    "--antennas", "--rho", "--rate-mode", "--n-clusters", "--overhead-discount",
    "--sector-width-deg", "--sector-orientation-deg", "--outage-threshold-bps",
    "--seed-topology", "--seed-plan", "--seed-shadowing", "--seed-oracle",
    "--realizations", "--dump-artifacts", "--out-dir",
]


def test_run_flags_are_unchanged(capsys):
    with pytest.raises(SystemExit):
        cli.main(["evaluate", "--help"])
    listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
    assert listed == RUN_FLAGS


def test_generate_flags_are_the_generator_settings(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["generate", "--help"])
    listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
    assert listed == ["--" + s.name.replace("_", "-") for s in SETTINGS
                      if s.generator] + ["--seed", "--out"]
    path = tmp_path / "office.json"
    assert cli.main(["generate", "--generator", "walled_office", "--n-rooms", "4",
                     "--n-aps", "4", "--n-users", "8", "--seed", "7",
                     "--antennas", "2", "--power-db", "80", "--out", str(path)]) == 0
    expected = pipeline.build_scenario(RunConfig(
        scenario={"generator": "walled_office", "n_rooms": 4, "n_aps": 4, "n_users": 8},
        antennas=2, power_db=80.0, seeds=pipeline.Seeds(topology=7)))
    assert from_tree(Scenario, json.loads(path.read_text())) == expected
    capsys.readouterr()
    for flags, message in ((["--generator", "walled_office"], "needs n_rooms"),
                           (["--generator", "open_floor", "--antennas", "2.5"],
                            "antennas cannot be 2.5"),
                           (["--generator", "open_floor", "--seed", "-1"],
                            "seeds.topology cannot be -1")):
        with pytest.raises(SystemExit):
            cli.main(["generate", *flags, "--n-aps", "4", "--n-users", "8",
                      "--out", str(path)])
        assert message in capsys.readouterr().err


# Settings valid only beside another: the setting and value each needs.
# walled_office is drawn only through n_rooms, which it needs.
_BESIDE = {"n_rooms": ("generator", "walled_office"),
           "sector_orientation_deg": ("sector_width_deg", 90.0)}


def _value(setting):
    """Values a setting accepts, as JSON carries them (beside _BESIDE's)."""
    if setting.name == "generator":
        base = st.sampled_from([g for g in setting.kind if g != "walled_office"])
    elif isinstance(setting.kind, tuple):
        base = st.sampled_from(setting.kind)
    elif setting.name == "overhead_discount":
        base = st.floats(0.0, 1.0, exclude_min=True)
    elif setting.name == "n_rooms":
        base = st.integers(1, 2**39).map(lambda n: 2 * n)
    elif setting.name == "sector_width_deg":
        base = st.one_of(st.integers(1, 360), st.floats(0.0, 360.0, exclude_min=True))
    elif setting.kind is int:
        base = st.integers(1, 2**40)
    else:
        base = st.one_of(st.integers(-2**40, 2**40),
                         st.floats(allow_nan=False, allow_infinity=False))
    return st.one_of(base, st.sampled_from(setting.nulls)) if setting.nulls else base


def _with(tree, setting, value):
    parent, key = setting.slot(tree)
    parent[key] = value
    return tree


def _beside(values):
    """The drawn values and the ones _BESIDE says they need."""
    return {**values, **dict(_BESIDE[name] for name in values if name in _BESIDE)}


def _cli_config(**flags):
    return cli._build_config(argparse.Namespace(
        config=None, scenario_file=None, **flags))


def _spelled(value):
    """A value as a flag or sweep-value string spells it."""
    return "disabled" if value is None else str(value)


@given(st.fixed_dictionaries({}, optional={s.name: _value(s) for s in SETTINGS}))
def test_configs_survive_a_json_round_trip(values):
    tree = asdict(RunConfig())
    for name, value in _beside(values).items():
        _with(tree, pipeline.SETTING[name], value)
    cfg = RunConfig(**tree)
    assert RunConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg


@given(st.sampled_from([s for s in SETTINGS if s.flag]).flatmap(
    lambda s: st.tuples(st.just(s), _value(s))))
def test_a_value_parses_alike_as_json_flag_and_sweep_point(drawn):
    setting, value = drawn
    assume(value is not None or "disabled" in setting.nulls)
    values, tree = _beside({setting.name: value}), asdict(RunConfig())
    for name, v in values.items():
        _with(tree, pipeline.SETTING[name], v)
    as_json = RunConfig(**json.loads(json.dumps(tree)))
    assert _cli_config(**{name: _spelled(v) for name, v in values.items()}) == as_json
    if setting.sweep:
        swept = RunConfig(sweep_axis=setting.name, sweep_values=[value])
        assert pipeline.resolve_sweep_point(swept, value) == as_json
        swept = _cli_config(sweep_axis=setting.name, sweep_values=_spelled(value))
        assert pipeline.resolve_sweep_point(swept, swept.sweep_values[0]) == as_json


@given(st.sampled_from([s for s in SETTINGS if s.kind is int]),
       st.floats(allow_nan=False, allow_infinity=False).filter(
           lambda x: not x.is_integer()))
def test_fractional_integers_are_refused_everywhere(setting, value):
    with pytest.raises(ValueError, match=re.escape(setting.at or setting.name)):
        RunConfig(**_with(asdict(RunConfig()), setting, value))
    if setting.flag:
        with pytest.raises(ValueError, match=re.escape(setting.at or setting.name)):
            _cli_config(**{setting.name: repr(value)})
    if setting.sweep:
        swept = RunConfig(sweep_axis=setting.name, sweep_values=[value])
        with pytest.raises(ValueError, match=setting.name):
            pipeline.resolve_sweep_point(swept, value)

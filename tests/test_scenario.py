import json
from dataclasses import replace

import pytest

from oppbak.scenario import (
    ConfigError,
    ScenarioConfig,
    config_from_dict,
    load_scenario,
)
from oppbak.sim import Simulation


class TestStrictParsing:
    def test_defaults_from_empty_document(self):
        config = config_from_dict({})
        assert config == ScenarioConfig().validate()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key.*horizonn_s"):
            config_from_dict({"horizonn_s": 100})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="workload.*unknown key.*ratee"):
            config_from_dict({"workload": {"ratee": 5}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="mobility"):
            config_from_dict({"mobility": 7})

    def test_range_validation(self):
        with pytest.raises(ConfigError, match="k <= n"):
            config_from_dict({"workload": {"n": 2, "k": 3}})
        with pytest.raises(ConfigError, match="horizon_s"):
            config_from_dict({"horizon_s": -5})
        with pytest.raises(ConfigError, match="contact_duration"):
            config_from_dict({"mobility": {"contact_duration_mean_s": 0}})
        with pytest.raises(ConfigError, match="targets"):
            config_from_dict({"failures": {"targets": "everyone"}})

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"server_reach_factor": 1.0}, "unknown key.*server_reach_factor"),
            ({"workload": {"mergeable": False}}, "workload.*unknown key.*mergeable"),
            ({"failures": {"targets": "none"}}, "failures.targets must be producers|all"),
            ({"eviction": {"w_age": 1.0}}, "^scenario root: unknown key.*eviction"),
            ({"eviction": {"w_res": 1.0}}, "^scenario root: unknown key.*eviction"),
            ({"eviction": {"w_size": 1.0}}, "^scenario root: unknown key.*eviction"),
        ],
    )
    def test_removed_settings_are_rejected(self, document, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(document)

    @pytest.mark.parametrize(
        "document, field",
        [
            ({"terminals": {"count": "10"}}, "terminals.count"),
            ({"workload": {"n": 4.5}}, "workload.n"),
            ({"seed": True}, "seed"),
            ({"horizon_s": False}, "horizon_s"),
            ({"payload_mode": 1}, "payload_mode"),
            ({"mobility": {"bandwidth_bytes_per_s": "fast"}}, "mobility.bandwidth_bytes_per_s"),
            ({"failures": {"targets": None}}, "failures.targets"),
            ({"workload": {"lifetime_s": "1h"}}, "workload.lifetime_s"),
        ],
    )
    def test_value_type_names_dotted_field(self, document, field):
        with pytest.raises(ConfigError, match=rf"^{field}: expected"):
            config_from_dict(document)

    def test_ints_as_floats_and_null_for_optional(self):
        config = config_from_dict(
            {"horizon_s": 60, "terminals": {"true_retrieval": None},
             "workload": {"lifetime_s": 600}}
        )
        assert config.horizon_s == 60
        assert config.terminals.true_retrieval is None
        assert config.workload.lifetime_s == 600

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "section, field",
        [
            (None, "horizon_s"),
            ("workload", "items_per_hour"),
            ("workload", "lifetime_s"),
            ("terminals", "true_retrieval"),
            ("mobility", "bandwidth_bytes_per_s"),
            ("failures", "rate_per_hour"),
        ],
    )
    def test_non_finite_numbers_are_rejected(self, tmp_path, section, field, value):
        # Python's json reads NaN, Infinity and -Infinity as floats, and writes them back
        document = {field: value} if section is None else {section: {field: value}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        where = field if section is None else f"{section}.{field}"
        with pytest.raises(ConfigError, match=rf"^{where}: expected a finite number"):
            config_from_dict(document)
        with pytest.raises(ConfigError, match=rf"^{where}: expected a finite number"):
            load_scenario(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "section, field",
        [
            (None, "horizon_s"),
            (None, "restore_delay_s"),
            ("workload", "lifetime_s"),
            ("terminals", "true_retrieval"),
            ("infrastructure", "window_duration_mean_s"),
            ("failures", "rate_per_hour"),
        ],
    )
    def test_non_finite_numbers_from_python_are_rejected(self, section, field, value):
        # built without a document: validate() is the only check, and a run would not end
        base = ScenarioConfig()
        if section is None:
            config = replace(base, **{field: value})
        else:
            config = replace(base, **{section: replace(getattr(base, section), **{field: value})})
        where = field if section is None else f"{section}.{field}"
        with pytest.raises(ConfigError, match=rf"^{where}: expected a finite number"):
            config.validate()
        with pytest.raises(ConfigError, match=rf"^{where}: expected a finite number"):
            Simulation(config)

    def test_round_trip(self):
        config = config_from_dict(
            {"seed": 9, "terminals": {"count": 5, "producers": 2}}
        )
        assert config_from_dict(config.to_dict()) == config


class TestLoadScenario:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 4, "horizon_s": 60}))
        config = load_scenario(path)
        assert config.seed == 4
        assert config.horizon_s == 60

    def test_seed_override(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 4}))
        assert load_scenario(path, seed_override=77).seed == 77

    @pytest.mark.parametrize("seed", ["77", 77.0, True])
    def test_seed_override_must_be_an_int(self, tmp_path, seed):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 4}))
        with pytest.raises(ConfigError, match="seed: expected int"):
            load_scenario(path, seed_override=seed)

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match="nope.json"):
            load_scenario(missing)

    def test_bad_json_gives_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"seed": }')
        with pytest.raises(ConfigError, match=r":1:\d+"):
            load_scenario(path)

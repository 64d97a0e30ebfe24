import json
from pathlib import Path

import jsonschema
import pytest

from oppbak.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src/oppbak/report.schema.json").read_text()
)

SCENARIO = {
    "seed": 5,
    "horizon_s": 1800.0,
    "terminals": {"count": 6, "producers": 2, "quota_bytes": 100_000},
    "workload": {"items_per_hour": 6.0, "n": 3, "k": 2},
    "mobility": {"encounter_rate_per_hour": 40.0},
    "infrastructure": {"window_rate_per_hour": 0.5},
    "failures": {"rate_per_hour": 0.5},
}


@pytest.fixture
def scenario_path(tmp_path) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


class TestRunCommand:
    def test_json_output_validates_and_has_loss_ratio(self, scenario_path, capsys):
        assert main(["run", "--scenario", scenario_path, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        jsonschema.validate(document, SCHEMA)
        assert "loss_ratio" in document

    def test_missing_file_exits_2_and_names_path(self, capsys):
        assert main(["run", "--scenario", "/no/such/file.json"]) == 2
        assert "/no/such/file.json" in capsys.readouterr().err

    def test_bad_scenario_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"mobility": {"speed": 3}}')
        assert main(["run", "--scenario", str(path)]) == 2
        assert "speed" in capsys.readouterr().err

    def test_mistyped_scenario_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"terminals": {"count": "10"}}')
        assert main(["run", "--scenario", str(path)]) == 2
        assert "terminals.count" in capsys.readouterr().err

    def test_non_finite_scenario_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"mobility": {"bandwidth_bytes_per_s": Infinity}}')
        assert main(["run", "--scenario", str(path)]) == 2
        assert "mobility.bandwidth_bytes_per_s" in capsys.readouterr().err

    def test_seed_override_is_byte_identical(self, scenario_path, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        tr1, tr2 = tmp_path / "a.trace", tmp_path / "b.trace"
        for out, tr in ((out1, tr1), (out2, tr2)):
            code = main([
                "run", "--scenario", scenario_path, "--seed", "7",
                "--format", "json", "--output", str(out), "--trace", str(tr),
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert tr1.read_bytes() == tr2.read_bytes()

    def test_csv_has_contract_header(self, scenario_path, capsys):
        assert main(["run", "--scenario", scenario_path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "metric,value"
        assert any(line.startswith("loss_ratio,") for line in lines)

    def test_unknown_flag_exits_2(self, scenario_path, capsys):
        assert main(["run", "--scenario", scenario_path, "--bogus"]) == 2


class TestEstimateCommand:
    def test_half_probability_majority(self, capsys):
        assert main(["estimate", "--k", "2", "--probs", "0.5", "0.5", "0.5"]) == 0
        assert capsys.readouterr().out == "0.500000000000\n"

    def test_single_fragment(self, capsys):
        assert main(["estimate", "--k", "1", "--probs", "0.9"]) == 0
        assert capsys.readouterr().out == "0.900000000000\n"

    def test_product_form(self, capsys):
        assert main(["estimate", "--k", "3", "--probs", "0.5", "0.6", "0.7"]) == 0
        assert capsys.readouterr().out == "0.210000000000\n"

    def test_dependency_factors_multiply(self, capsys):
        assert main([
            "estimate", "--k", "1", "--probs", "0.8", "--dep", "0.5", "--dep", "0.9",
        ]) == 0
        assert capsys.readouterr().out == "0.360000000000\n"

    def test_out_of_range_prob_exits_2(self, capsys):
        assert main(["estimate", "--k", "1", "--probs", "1.5"]) == 2
        assert main(["estimate", "--k", "1", "--probs", "0.5", "--dep", "2.0"]) == 2
        assert main(["estimate", "--k", "0", "--probs", "0.5"]) == 2


class TestBatchCommand:
    def test_batch_json_validates(self, scenario_path, capsys):
        code = main([
            "batch", "--scenario", scenario_path, "--replications", "3",
            "--format", "json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        jsonschema.validate(document, SCHEMA)
        assert document["replications"] == 3

    def test_single_replication_matches_run_scalars(self, scenario_path, capsys):
        assert main(["run", "--scenario", scenario_path, "--format", "json"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert main([
            "batch", "--scenario", scenario_path, "--replications", "1",
            "--format", "json",
        ]) == 0
        batch = json.loads(capsys.readouterr().out)
        for name, stats in batch["metrics"].items():
            assert stats["mean"] == float(single[name])

    def test_ci_fields_present_and_finite(self, scenario_path, capsys):
        assert main([
            "batch", "--scenario", scenario_path, "--replications", "10",
            "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        for stats in document["metrics"].values():
            for field in ("mean", "stdev", "ci_low", "ci_high"):
                assert stats[field] == pytest.approx(stats[field])  # finite, not NaN
            assert stats["ci_low"] <= stats["mean"] <= stats["ci_high"]

    def test_zero_replications_exits_2(self, scenario_path, capsys):
        assert main([
            "batch", "--scenario", scenario_path, "--replications", "0",
        ]) == 2

    def test_csv_header(self, scenario_path, capsys):
        assert main([
            "batch", "--scenario", scenario_path, "--replications", "2",
            "--format", "csv",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "metric,mean,stdev,ci_low,ci_high"

import csv
import io
import json
from pathlib import Path

import jsonschema
import pytest

from oppbak import cli
from oppbak.cli import main
from oppbak.scenario import load_scenario
from oppbak.sim import EncounterEvent, MetricsReport, Simulation, run, run_batch

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


def rendering(report, fmt):
    """The bytes each output format must hold, rendered here from the report alone."""
    if fmt == "json":
        return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        if isinstance(report, MetricsReport):
            writer.writerow(["metric", "value"])
            writer.writerows([name, getattr(report, name)] for name in report.scalar_metrics)
            writer.writerows([f"loss_ratio[{band}]", ratio]
                             for band, ratio in sorted(report.loss_ratio_by_band.items()))
        else:
            writer.writerow(["metric", "mean", "stdev", "ci_low", "ci_high"])
            writer.writerows([name, *(stats[f] for f in ("mean", "stdev", "ci_low", "ci_high"))]
                             for name, stats in sorted(report.metrics.items()))
        return out.getvalue()
    if isinstance(report, MetricsReport):
        counts = {}
        for outcome in report.outcomes.values():
            counts[outcome] = counts.get(outcome, 0) + 1
        rows = [("items produced", report.items_produced),
                ("items measured", report.items_measured),
                ("loss ratio", f"{report.loss_ratio:.4f}")]
        lines = [f"run seed={report.seed} horizon={report.horizon_s:.0f}s"]
        lines += [f"  {name:<24}{value}" for name, value in rows]
        lines += [f"    priority {band}     {ratio:.4f}"
                  for band, ratio in sorted(report.loss_ratio_by_band.items())]
        lines += [f"  {name:<24}{count}" for name, count in sorted(counts.items())]
        rows = [("fragments saved", report.fragments_saved),
                ("bytes to peers", report.bytes_to_peers),
                ("bytes to server", report.bytes_to_server),
                ("conflicts", report.conflict_count),
                ("restore episodes", len(report.calibration_episodes))]
        lines += [f"  {name:<24}{value}" for name, value in rows]
    else:
        lines = [f"batch seed={report.seed} replications={report.replications}"]
        lines += [f"  {name:<24}{stats['mean']:>14.4f}  "
                  f"[{stats['ci_low']:.4f}, {stats['ci_high']:.4f}]"
                  for name, stats in sorted(report.metrics.items())]
        lines.append(f"  pooled restore episodes {len(report.calibration_episodes)}")
    return "\n".join(lines) + "\n"


class TestOutputBytes:
    """Reports and traces are written as produced; the bytes stay those of one rendering."""

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    @pytest.mark.parametrize("command", ["run", "batch"])
    def test_output_equals_the_rendering(self, command, fmt, to_file, scenario_path,
                                         tmp_path, capsys):
        config = load_scenario(scenario_path)
        report = run(config) if command == "run" else run_batch(config, 3)
        argv = [command, "--scenario", scenario_path, "--format", fmt]
        if command == "batch":
            argv += ["--replications", "3"]
        out = tmp_path / "report.out"
        assert main(argv + (["--output", str(out)] if to_file else [])) == 0
        written = out.read_bytes() if to_file else capsys.readouterr().out.encode()
        assert written == rendering(report, fmt).encode()

    def test_trace_file_holds_every_emitted_line(self, scenario_path, tmp_path):
        lines = []
        run(load_scenario(scenario_path), trace=lines.append)
        trace = tmp_path / "run.trace"
        assert main(["run", "--scenario", scenario_path, "--format", "json",
                     "--output", str(tmp_path / "r.json"), "--trace", str(trace)]) == 0
        assert lines and trace.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_batch_json_never_builds_the_whole_document(self, scenario_path, tmp_path,
                                                        monkeypatch):
        expected = rendering(run_batch(load_scenario(scenario_path), 3), "json")

        def one_shot(self, o):
            raise AssertionError("the report was encoded into one string")

        monkeypatch.setattr(json.JSONEncoder, "encode", one_shot)
        out = tmp_path / "batch.json"
        assert main(["batch", "--scenario", scenario_path, "--replications", "3",
                     "--format", "json", "--output", str(out)]) == 0
        assert out.read_text() == expected

    def test_a_failed_run_leaves_its_trace_up_to_the_failure(self, scenario_path, tmp_path,
                                                             monkeypatch, capsys):
        on_encounter = Simulation._HANDLERS[EncounterEvent]

        def failing(sim, event):
            if event.time > 900.0:
                raise RuntimeError("injected encounter failure")
            return on_encounter(sim, event)

        monkeypatch.setitem(Simulation._HANDLERS, EncounterEvent, failing)
        lines = []
        with pytest.raises(RuntimeError):
            run(load_scenario(scenario_path), trace=lines.append)
        trace, out = tmp_path / "run.trace", tmp_path / "report.json"
        assert main(["run", "--scenario", scenario_path, "--format", "json",
                     "--output", str(out), "--trace", str(trace)]) == 1
        assert "injected encounter failure" in capsys.readouterr().err
        assert lines and trace.read_text() == "\n".join(lines) + "\n"
        assert not out.exists()  # the report file is opened only after a run succeeds

    def test_unwritable_trace_path_fails_before_the_run(self, scenario_path, tmp_path,
                                                        monkeypatch, capsys):
        started = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: started.append(args))
        path = tmp_path / "no-such-dir" / "run.trace"
        assert main(["run", "--scenario", scenario_path, "--trace", str(path)]) == 2
        assert str(path) in capsys.readouterr().err
        assert started == []
